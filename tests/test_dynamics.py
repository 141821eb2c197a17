"""Propagators, the evolution driver, and entanglement entropy."""

import csv
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

from nhchain import (
    EvolverConfig,
    ModelParams,
    ObservableSeries,
    SpectralDecomposition,
    arnoldi_step,
    build_fock_basis,
    build_many_body,
    build_single_particle,
    decompose,
    density_profile,
    entanglement_entropy,
    evolve_exact,
    initial_domain_wall,
    initial_localized,
    ipr,
    run,
)
import nhchain.dynamics as dynamics
from nhchain.dynamics import _expm_e1, _krylov_error


def dense_rho_entropy(psi, basis, cut):
    """Reduced-density-matrix oracle: trace out the right block by
    explicit summation over all word pairs."""
    mask = (1 << cut) - 1
    left = basis.states & mask
    right = basis.states >> cut
    dim_l = 1 << cut
    rho = np.zeros((dim_l, dim_l), dtype=complex)
    for i, (li, ri) in enumerate(zip(left, right)):
        for k, (lk, rk) in enumerate(zip(left, right)):
            if ri == rk:
                rho[li, lk] += psi[i] * np.conj(psi[k])
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-16]
    return float(-np.sum(lam * np.log(lam)))


def test_initial_localized():
    psi = initial_localized(4, 2)
    assert np.array_equal(psi, [0, 0, 1, 0])
    assert np.linalg.norm(initial_localized(1200, 580)) == 1.0
    with pytest.raises(ValueError):
        initial_localized(4, 4)
    with pytest.raises(ValueError):
        initial_localized(4, -1)


def test_initial_domain_wall():
    basis = build_fock_basis(4, 2)
    psi = initial_domain_wall(basis)
    assert psi[np.searchsorted(basis.states, 0b1100)] == 1.0
    assert np.count_nonzero(psi) == 1
    basis8 = build_fock_basis(8, 4)
    wall8 = initial_domain_wall(basis8)
    assert wall8[np.searchsorted(basis8.states, 0b11110000)] == 1.0
    assert entanglement_entropy(wall8, basis8) == pytest.approx(0.0, abs=1e-12)
    for (L, N), word in (((6, 2), 0b110000), ((7, 3), 0b1110000)):   # away from half filling
        basis = build_fock_basis(L, N)
        psi = initial_domain_wall(basis)
        assert psi[np.searchsorted(basis.states, word)] == 1.0 and np.count_nonzero(psi) == 1


def test_evolve_exact_t_zero_identity():
    p = ModelParams(L=10, g=0.5, W=1.0, bc="pbc")
    d = decompose(build_single_particle(p))
    psi0 = initial_localized(10, 4)
    assert np.abs(evolve_exact(d, psi0, 0.0) - psi0).max() < 1e-12


def test_hermitian_exact_evolution_matches_expm():
    # at g = 0 the evolution is unitary: the normalized state is expm's own
    H = build_single_particle(ModelParams(L=16, g=0.0, W=1.0, bc="pbc"))
    psi0 = initial_localized(16, 8)
    psi = evolve_exact(decompose(H), psi0, 7.0)
    assert np.abs(psi - scipy.linalg.expm(-7.0j * H.dense()) @ psi0).max() < 1e-10


def test_long_time_converges_to_max_growth_mode():
    p = ModelParams(L=8, g=0.5, W=0.0, bc="pbc")
    d = decompose(build_single_particle(p))
    r_max = d.right[:, int(np.argmax(d.eigenvalues.imag))]
    r_max = r_max / np.linalg.norm(r_max)
    psi = evolve_exact(d, initial_localized(8, 3), 50.0)
    assert 1.0 - abs(np.vdot(r_max, psi)) < 1e-6


def test_arnoldi_full_subspace_matches_exact():
    p = ModelParams(L=8, g=0.5, W=1.0, bc="pbc")
    H = build_single_particle(p)
    d = decompose(H)
    psi0 = initial_localized(8, 3)
    stepped = arnoldi_step(H.entries, psi0, 8, 0.2)
    exact = evolve_exact(d, psi0, 0.2)
    assert np.abs(stepped - exact).max() < 1e-10


def test_arnoldi_step_edge_cases():
    H = build_single_particle(ModelParams(L=6, g=0.3, bc="pbc")).entries
    psi = initial_localized(6, 2)
    same = arnoldi_step(H, psi, 4, 0.0)
    assert np.array_equal(same, psi) and same is not psi
    with pytest.raises(ValueError):
        arnoldi_step(H, psi, 4, -0.1)
    with pytest.raises(ValueError):
        arnoldi_step(H, np.zeros(6), 4, 0.1)
    # M above dim is capped, not an error
    out = arnoldi_step(H, psi, 99, 0.2)
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_evolve_exact_refuses_a_state_that_vanishes():
    # hand-built modes on which psi0's expansion cancels: both right vectors coincide
    d = SpectralDecomposition(eigenvalues=np.zeros(2, dtype=complex), right=np.full((2, 2), 0.5**0.5),
                              left=np.eye(2))
    with pytest.raises(FloatingPointError, match="left the representable range"):
        evolve_exact(d, np.array([1.0, -1.0]), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_arnoldi_step_refuses_a_non_finite_operator(bad):
    with pytest.raises(FloatingPointError, match="non-finite entries in Krylov step"):
        arnoldi_step(np.full((6, 6), bad), initial_localized(6, 2), 4, 0.1)


def test_arnoldi_happy_breakdown():
    # start in an exact eigenvector: Krylov space is 1-dimensional
    p = ModelParams(L=6, g=0.0, W=2.0, bc="obc")
    H = build_single_particle(p)
    d = decompose(H)
    v = d.right[:, 2].astype(complex)
    out = arnoldi_step(H.entries, v, 6, 0.3)
    expect = np.exp(-1j * d.eigenvalues[2] * 0.3) * v
    expect = expect / np.linalg.norm(expect)
    assert min(np.abs(out - expect).max(), np.abs(out + expect).max()) < 1e-10


def test_arnoldi_step_same_for_every_storage():
    basis = build_fock_basis(12, 6)          # dim 924
    H = build_many_body(ModelParams(L=12, N=6, g=0.5, V=2.0, W=1.0, bc="pbc"), basis)
    psi = initial_domain_wall(basis)
    ref = arnoldi_step(H.csr(), psi, 25, 0.05)
    assert np.abs(arnoldi_step(H.dense(), psi, 25, 0.05) - ref).max() <= 1e-12


def fixed_krylov(A, psi, m):
    """Arnoldi run to exactly m vectors by modified Gram-Schmidt, twice:
    the basis V_m, the Hessenberg matrix H_m and h_{m+1,m}."""
    V = np.zeros((len(psi), m + 1), dtype=complex)
    h = np.zeros((m + 1, m), dtype=complex)
    V[:, 0] = psi / np.linalg.norm(psi)
    for j in range(m):
        w = A @ V[:, j]
        for _ in range(2):
            for i in range(j + 1):
                c = np.vdot(V[:, i], w)
                w = w - c * V[:, i]
                h[i, j] += c
        h[j + 1, j] = np.linalg.norm(w)
        V[:, j + 1] = w / h[j + 1, j]
    return V[:, :m], h[:m, :m], h[m, m - 1].real


def quench_924():
    basis = build_fock_basis(12, 6)
    H = build_many_body(ModelParams(L=12, N=6, g=0.5, V=2.0, W=1.0, bc="pbc"), basis)
    return H, initial_domain_wall(basis)


def open_chain_60():
    """The open g = 1 chain at L=60 from a delta at site 45: the skin effect
    makes its Hessenberg matrices far from normal."""
    H = build_single_particle(ModelParams(L=60, g=1.0, bc="obc"))
    return H, initial_localized(60, 45)


# (system, Krylov dimensions) per step length; an eigendecomposition was
# 1.4e-11 to 1.7e-11 off expm on the open chain's H_15
ESTIMATE_CASES = {
    0.05: [(quench_924, (6, 8, 10, 16))],
    0.25: [(quench_924, (6, 8, 10, 16)), (open_chain_60, (15,))],
    0.5: [(open_chain_60, (15,))],
    1.0: [(open_chain_60, (15,))],
}


@pytest.mark.parametrize("dt", list(ESTIMATE_CASES))
def test_krylov_error_estimate_bounds_the_true_error(dt):
    for system, ms in ESTIMATE_CASES[dt]:
        H, psi = system()
        exact = scipy.linalg.expm(-1j * dt * H.dense()) @ psi
        for m in ms:
            V, hm, beta = fixed_krylov(H.entries, psi, m)
            y = _expm_e1(hm, dt)
            assert np.abs(y - scipy.linalg.expm(-1j * dt * hm)[:, 0]).max() <= 1e-14 * np.linalg.norm(y)
            true = np.linalg.norm(V @ y - exact) / np.linalg.norm(exact)
            estimate = _krylov_error(y, beta)
            # above the rounding floor of both propagators the estimate is an
            # upper bound, and a tight one (measured 24x to 200x the true error)
            assert true <= estimate + 1e-13, (m, true, estimate)
            assert true < 1e-13 or estimate < 1e3 * true, (m, true, estimate)


class CountingOperator:
    """A matrix that counts the mat-vec products taken with it."""

    def __init__(self, A):
        self.A, self.matvecs = A, 0

    def __matmul__(self, v):
        self.matvecs += 1
        return self.A @ v


def test_arnoldi_step_stops_below_the_cap_with_the_full_step_answer():
    H, psi = quench_924()
    V, hm, _ = fixed_krylov(H.entries, psi, 25)          # the fixed M=25 step
    full = V @ scipy.linalg.expm(-0.05j * hm)[:, 0]
    full /= np.linalg.norm(full)
    op = CountingOperator(H.entries)
    out = arnoldi_step(op, psi, 25, 0.05)
    assert op.matvecs < 25
    assert np.abs(out - full).max() <= 1e-11


def test_a_sub_step_below_the_cap_takes_one_small_exponential(monkeypatch):
    # the estimate is taken once its leading term prod_k h_{k+1,k} tau/k * m/tau
    # reaches the tolerance; gated on the Taylor term alone, ~70x smaller,
    # every step here took a second, failed estimate
    calls = []
    monkeypatch.setattr(dynamics, "_expm_e1", lambda *args: calls.append(1) or _expm_e1(*args))
    for system, dt in ((quench_924, 0.05), (quench_924, 0.25), (open_chain_60, 0.25), (open_chain_60, 0.5)):
        H, psi = system()
        op = CountingOperator(H.entries)
        calls.clear()
        arnoldi_step(op, psi, 25, dt)
        assert op.matvecs < 25 and len(calls) == 1, (system.__name__, dt, op.matvecs, len(calls))


def test_a_step_that_reaches_the_cap_shortens_on_its_basis():
    # cap 15 is too small for a step of 1.0 on the open g = 1 chain: each
    # basis built is used, its sub-step shortened until the estimate passes
    H, psi = open_chain_60()
    exact = scipy.linalg.expm(-1j * H.dense()) @ psi
    op = CountingOperator(H.entries)
    out = arnoldi_step(op, psi, 15, 1.0)
    assert np.abs(out - exact / np.linalg.norm(exact)).max() <= 1e-12
    assert op.matvecs <= 100


def test_a_step_that_reaches_the_cap_is_split_to_the_tolerance():
    # one sub-step over all of dt reaches the cap 25 above KRYLOV_TOL:
    # accepted as it stands, it would be 7.4e-10 (dt = 1) and 7.1e-4 (dt = 2) off
    H, psi = quench_924()
    modes = decompose(H)
    for dt in (1.0, 2.0):
        exact = evolve_exact(modes, psi, dt)
        assert np.abs(arnoldi_step(H.entries, psi, 25, dt) - exact).max() <= 1e-12, dt


def test_every_cap_terminates():
    basis = build_fock_basis(8, 4)                     # dim 70
    H = build_many_body(ModelParams(L=8, N=4, g=0.5, V=2.0, W=1.0, bc="pbc"), basis)
    psi = initial_domain_wall(basis)
    exact = scipy.linalg.expm(-0.05j * H.dense()) @ psi
    exact /= np.linalg.norm(exact)
    for M in (-1, 0, 1):        # at m = 1 the estimate is h_21 at every step length
        with pytest.raises(ValueError, match="M must be >= 2"):
            arnoldi_step(H.entries, psi, M, 0.05)
        with pytest.raises(ValueError, match="M must be >= 2"):
            EvolverConfig(M=M)
    returned, raised = [], []
    for M in range(2, basis.dim + 3):
        try:
            out = arnoldi_step(H.entries, psi, M, 0.05)
        except FloatingPointError as exc:
            assert "sub-steps below" in str(exc)
            raised.append(M)
            continue
        assert np.abs(out - exact).max() <= 1e-12, M
        returned.append(M)
    # caps too small for the tolerance raise instead of splitting without end
    assert raised and max(raised) < min(returned) <= 5
    # so does an interval whose sub-steps would be too many, and at once:
    # the small exponential's cost grows with log tau, not tau
    for M in (min(returned), 25):
        with pytest.raises(FloatingPointError, match="sub-steps below"):
            arnoldi_step(H.entries, psi, M, 1e5)


def test_a_sub_step_whose_exponential_overflows_is_halved():
    # e^{-i tau H_m} overflows at tau = 1000 on this growing chain: the
    # sub-step halves on its basis until the norm is finite, then splits
    basis = build_fock_basis(8, 4)
    H = build_many_body(ModelParams(L=8, N=4, g=0.5, V=2.0, W=1.0, bc="pbc"), basis)
    psi = initial_domain_wall(basis)
    exact = evolve_exact(decompose(H), psi, 1000.0)
    for M in (25, basis.dim):
        assert np.abs(arnoldi_step(H.entries, psi, M, 1000.0) - exact).max() <= 1e-11, M


def test_hermitian_krylov_matches_expm_over_500_steps():
    H = build_single_particle(ModelParams(L=40, g=0.0, W=1.0, bc="pbc"))
    psi0 = initial_localized(40, 20)
    psi = psi0
    for _ in range(500):
        psi = arnoldi_step(H.entries, psi, 15, 0.2)
    assert np.abs(psi - scipy.linalg.expm(-100.0j * H.dense()) @ psi0).max() < 1e-9


def test_default_cap_takes_a_delta_start_step_to_the_tolerance(monkeypatch):
    # fig3's first step: a delta state at L=600 needs m ~ 20 at dt = 0.2,
    # which the default cap must allow (a cap of 15 erred by 7.2e-11)
    p = ModelParams(L=600, g=1.0, W=0.0, bc="pbc")
    psi0 = initial_localized(600, 580)
    states = []

    def recording(*args):
        states.append(arnoldi_step(*args))
        return states[-1]

    monkeypatch.setattr(dynamics, "arnoldi_step", recording)
    run(p, EvolverConfig(dt=0.2, t_max=0.2), psi0)
    exact = scipy.linalg.expm(-0.2j * build_single_particle(p).dense()) @ psi0
    assert np.abs(states[-1] - exact / np.linalg.norm(exact)).max() <= 1e-12


def test_run_takes_every_krylov_step_on_one_csr_operator(monkeypatch):
    # both chains reach arnoldi_step as one CSR operator, H.csr() taken once
    # per run; a Fock chain's CSR is the builder's own arrays, not a copy
    built, seen = [], []
    build, step = dynamics.build_many_body, dynamics.arnoldi_step

    def building(*args):
        built.append(build(*args))
        return built[-1]

    def recording(H, *args):
        seen.append(H)
        return step(H, *args)

    monkeypatch.setattr(dynamics, "build_many_body", building)
    monkeypatch.setattr(dynamics, "arnoldi_step", recording)
    config = EvolverConfig(dt=0.1, t_max=0.3)
    p = ModelParams(L=8, g=0.5, W=1.0, bc="pbc")
    run(p, config, initial_localized(8, 3))
    basis = build_fock_basis(8, 4)
    run(replace(p, N=4, V=2.0), config, initial_domain_wall(basis), basis=basis)
    one, fock = seen[:3], seen[3:]
    assert len(fock) == 3 and all(H is one[0] for H in one) and all(H is fock[0] for H in fock)
    for H in (one[0], fock[0]):
        assert sparse.issparse(H) and H.format == "csr"
    assert one[0].nnz == 3 * 8 and np.array_equal(one[0].toarray(), build_single_particle(p).entries)
    assert all(np.shares_memory(getattr(fock[0], a), getattr(built[0].entries, a))
               for a in ("data", "indices", "indptr"))


@pytest.mark.parametrize("bc", ["pbc", "obc"])
@pytest.mark.parametrize("W", [0.0, 5.4])
def test_csr_krylov_run_matches_steps_on_the_dense_matrix(bc, W):
    # fig3 at L=60: the delta start near the right end, g=1, dt=0.2 to t=40
    p = ModelParams(L=60, g=1.0, W=W, bc=bc)
    config = EvolverConfig(dt=0.2, t_max=40.0)
    psi = initial_localized(60, 58)
    got = run(p, config, psi).blocks["density"]
    H = build_single_particle(p).dense()
    expect = [density_profile(psi)]
    for dt in config.record_grid()[1]:
        psi = arnoldi_step(H, psi, config.M, dt)
        expect.append(density_profile(psi))
    assert got.shape == (201, 60) and np.abs(got - np.array(expect)).max() <= 1e-12


def test_krylov_tracks_exact_over_window():
    p = ModelParams(L=10, g=0.5, W=1.0, bc="pbc")
    H = build_single_particle(p)
    d = decompose(H)
    psi0 = initial_localized(10, 5)
    psi = psi0.copy()
    worst = 0.0
    for k in range(1, 201):
        psi = arnoldi_step(H.entries, psi, 25, 0.05)
        if k % 10 == 0:
            exact = evolve_exact(d, psi0, 0.05 * k)
            worst = max(worst, np.abs(psi - exact).max())
    assert worst < 1e-8


def test_entropy_single_particle_bell_pair():
    basis = build_fock_basis(2, 1)
    psi = np.zeros(2, dtype=complex)
    psi[np.searchsorted(basis.states, [0b01, 0b10])] = 1.0 / np.sqrt(2.0)
    assert entanglement_entropy(psi, basis) == pytest.approx(np.log(2.0), abs=1e-12)


def test_entropy_matches_density_matrix_oracle():
    basis = build_fock_basis(8, 4)
    rng = np.random.default_rng(7)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi = psi / np.linalg.norm(psi)
    ours = entanglement_entropy(psi, basis)
    oracle = dense_rho_entropy(psi, basis, 4)
    assert abs(ours - oracle) < 1e-10
    assert ours == pytest.approx(2.066359641937, abs=1e-9)
    assert ours <= np.log(16.0) + 1e-12   # min-block dimension bound


def test_entropy_input_validation():
    basis = build_fock_basis(4, 2)
    with pytest.raises(ValueError):
        entanglement_entropy(2.0 * initial_domain_wall(basis), basis)


def test_run_slide_monotonic():
    p = ModelParams(L=40, g=0.5, W=0.0, bc="pbc")
    cfg = EvolverConfig(method="krylov", M=15, dt=0.2, t_max=5.0, record_stride=5)
    series = run(p, cfg, initial_localized(40, 20), ("density",))
    peaks = [int(np.argmax(series.profile_at("density", t))) for t in np.arange(0.0, 5.1, 1.0)]
    assert all(b < a for a, b in zip(peaks, peaks[1:]))   # drifts toward lower index


def test_run_boundary_condition_insensitive_before_contact():
    profiles = {}
    for bc in ("obc", "pbc"):
        p = ModelParams(L=60, g=1.0, W=0.0, bc=bc)
        cfg = EvolverConfig(method="krylov", M=15, dt=0.2, t_max=4.0, record_stride=5)
        series = run(p, cfg, initial_localized(60, 45), ("density",))
        profiles[bc] = np.concatenate([series.profile_at("density", t) for t in (1.0, 2.0, 3.0, 4.0)])
    assert np.abs(profiles["obc"] - profiles["pbc"]).max() < 1e-6


def test_run_fock_ipr_converges_to_dominant_mode():
    basis = build_fock_basis(12, 6)
    p = ModelParams(L=12, N=6, g=0.5, V=2.0, W=0.5, bc="pbc")
    d = decompose(build_many_body(p, basis))
    r_max = d.right[:, int(np.argmax(d.eigenvalues.imag))]
    target = ipr(r_max)
    psi = evolve_exact(d, initial_domain_wall(basis), 40.0)
    assert abs(ipr(psi) - target) < 1e-4


def test_disorder_enhances_spreading_width():
    # rms width of |psi_j|^2 at t=40 grows under near-critical disorder
    widths = {}
    for W in (0.0, 0.9 * 2.0 * np.e):
        p = ModelParams(L=400, g=1.0, W=W, bc="obc")
        cfg = EvolverConfig(method="krylov", M=15, dt=0.2, t_max=40.0, record_stride=200)
        series = run(p, cfg, initial_localized(400, 380), ("density",))
        prob = series.profile_at("density", 40.0)
        j = np.arange(400)
        mu = float((j * prob).sum())
        widths[W] = float(np.sqrt(((j - mu) ** 2 * prob).sum()))
    assert widths[0.9 * 2.0 * np.e] > widths[0.0]


def test_run_validation():
    p = ModelParams(L=8, g=0.5, W=0.0, bc="pbc")
    cfg = EvolverConfig(method="krylov", dt=0.1, t_max=1.0)
    psi0 = initial_localized(8, 4)
    with pytest.raises(ValueError):
        run(p, cfg, psi0, ("bogus",))
    with pytest.raises(ValueError):
        run(p, cfg, psi0, ("s_ee",))            # needs a many-body state
    with pytest.raises(ValueError, match="takes no Fock basis"):    # it would be ignored
        run(p, cfg, psi0, basis=build_fock_basis(8, 1))
    with pytest.raises(ValueError, match="known: density, ipr, s_ee"):
        run(p, cfg, psi0, ("rmax_overlap",))    # no observable of run: decompose gives the modes
    with pytest.raises(ValueError, match="known: density, ipr, s_ee"):
        run(p, replace(cfg, method="exact"), psi0, ("rmax_overlap",))
    basis = build_fock_basis(6, 3)
    with pytest.raises(ValueError, match="known: density, ipr, s_ee"):
        run(ModelParams(L=6, N=3, g=0.5, bc="pbc"), cfg, initial_domain_wall(basis),
            ("fock_ipr",), basis=basis)         # ipr under a second name
    for method in ("krylov", "exact"):
        for bad in (np.zeros(8), psi0[:-1]):    # refused before any step or decomposition
            with pytest.raises(ValueError, match=r"nonzero state of shape \(8,\)"):
                run(p, replace(cfg, method=method), bad)


def test_krylov_run_needs_no_spectrum(monkeypatch):
    def no_spectrum(H):
        raise AssertionError("a Krylov run decomposed H")

    monkeypatch.setattr(dynamics, "decompose", no_spectrum)
    basis = build_fock_basis(8, 4)
    p = ModelParams(L=8, N=4, g=0.5, V=2.0, W=1.0, bc="pbc")
    cfg = EvolverConfig(method="krylov", dt=0.1, t_max=0.5)
    series = run(p, cfg, initial_domain_wall(basis), ("density", "ipr", "s_ee"), basis=basis)
    assert list(series.blocks) == ["density", "ipr", "s_ee"] and len(series.t) == 6


def test_evolver_config_validation():
    with pytest.raises(ValueError):
        EvolverConfig(method="magic")
    with pytest.raises(ValueError):
        EvolverConfig(dt=0.0)
    with pytest.raises(ValueError):
        EvolverConfig(M=0)
    with pytest.raises(ValueError):
        EvolverConfig(M=1)
    with pytest.raises(ValueError):
        EvolverConfig(record_stride=0)
    with pytest.raises(ValueError):
        EvolverConfig(t_max=-1.0)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["dt", "t_max"])
def test_evolver_config_refuses_non_finite_times(name, value):
    with pytest.raises(ValueError, match="dt and t_max must be finite"):
        EvolverConfig(**{name: value})


def test_series_csv_round_trip(tmp_path):
    series = ObservableSeries(t=np.array([0.0, 0.5]), blocks={"ipr": np.array([[0.25], [0.5]])})
    path = tmp_path / "series.csv"
    series.write_csv(str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,observable,index,value"
    assert len(lines) == 3 == len(series.records) + 1
    assert np.allclose(series.values("ipr"), [[0.0, 0.25], [0.5, 0.5]])


def test_series_rows_are_time_major_and_lookups_are_exact():
    p = ModelParams(L=6, g=0.5, W=1.0, bc="pbc")
    config = EvolverConfig(method="krylov", M=6, dt=0.1, t_max=0.5, record_stride=2)
    series = run(p, config, initial_localized(6, 3), ("ipr", "density"))
    assert np.allclose(series.t, [0.0, 0.2, 0.4, 0.5])
    assert series.blocks["density"].shape == (4, 6) and series.blocks["ipr"].shape == (4, 1)
    rows = series.records
    assert len(rows) == 4 * (1 + 6)
    assert [r[1:3] for r in rows[:7]] == [("ipr", 0)] + [("density", j) for j in range(6)]
    assert rows[7][0] == series.t[1]
    profile = series.profile_at("density", 0.4)
    assert profile.sum() == pytest.approx(1.0)
    assert np.array_equal(profile, [r[3] for r in rows[15:21]])
    with pytest.raises(ValueError):
        series.profile_at("density", 0.3)


def dense_svd_entropy(psi, basis, cut):
    """Oracle: singular values of the full 2^cut x 2^(L-cut) amplitude matrix."""
    A = np.zeros((1 << cut, 1 << (basis.L - cut)), dtype=complex)
    A[basis.states & ((1 << cut) - 1), basis.states >> cut] = psi
    s2 = scipy.linalg.svdvals(A) ** 2
    s2 = s2[s2 > 1e-16]
    return float(-np.sum(s2 * np.log(s2)))


@pytest.mark.parametrize("L, N", [(2, 1), (5, 1), (6, 3), (9, 4), (11, 7), (12, 6), (18, 9)])
def test_entropy_from_number_blocks_matches_dense_svd(L, N):
    basis = build_fock_basis(L, N)
    rng = np.random.default_rng(L * 100 + N)
    psi = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    psi = psi / np.linalg.norm(psi)
    assert abs(entanglement_entropy(psi, basis) - dense_svd_entropy(psi, basis, L // 2)) < 1e-12
    # a product state: every block but one is empty
    assert entanglement_entropy(initial_domain_wall(basis), basis) == 0.0


def test_csv_bytes_match_the_csv_module(tmp_path):
    density = np.array([[0.5, 0.25, 0.25], [np.nan, -0.0, 1e-300], [np.inf, -np.inf, 1 / 3]])
    series = ObservableSeries(t=np.array([0.0, 0.1 + 0.2, 40.0]),
                              blocks={"density": density, "ipr": np.array([[1.0], [-0.0], [np.nan]])})
    series.write_csv(str(tmp_path / "fast.csv"))
    with open(tmp_path / "oracle.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "observable", "index", "value"])
        writer.writerows(series.records)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def test_run_ends_at_t_max_off_the_step_grid():
    p = ModelParams(L=10, g=0.5, W=1.0, bc="pbc")
    psi0 = initial_localized(10, 5)
    series = {method: run(p, EvolverConfig(method=method, M=10, dt=0.3, t_max=1.0),
                          psi0, ("density",))
              for method in ("krylov", "exact")}
    assert series["krylov"].t.tolist() == [0.0, 0.3, 0.6, 0.8999999999999999, 1.0]
    assert np.array_equal(series["krylov"].t, series["exact"].t)
    assert np.abs(series["krylov"].profile_at("density", 1.0)
                  - series["exact"].profile_at("density", 1.0)).max() < 1e-8
    stride = run(p, EvolverConfig(M=10, dt=0.3, t_max=1.0, record_stride=2), psi0, ("ipr",))
    assert stride.t.tolist() == [0.0, 0.6, 1.0]


def test_run_takes_one_step_per_record_interval(monkeypatch):
    calls = []

    def counting(H, psi, M, dt):
        calls.append((M, dt))
        return arnoldi_step(H, psi, M, dt)

    monkeypatch.setattr(dynamics, "arnoldi_step", counting)
    basis = build_fock_basis(8, 4)
    p = ModelParams(L=8, N=4, g=0.5, V=2.0, W=1.0, bc="pbc")
    psi0 = initial_domain_wall(basis)
    # the benchmark quench's grid: 20 units of 0.05, a record every 5
    series = run(p, EvolverConfig(M=25, dt=0.05, t_max=1.0, record_stride=5), psi0,
                 ("s_ee",), basis=basis)
    assert np.array_equal(series.t, np.array([0, 5, 10, 15, 20]) * 0.05)
    assert calls == [(25, 0.25)] * 4
    exact = run(p, EvolverConfig(method="exact", dt=0.05, t_max=1.0, record_stride=5), psi0,
                ("s_ee",), basis=basis)
    assert np.array_equal(exact.t, series.t)
    assert np.abs(series.blocks["s_ee"] - exact.blocks["s_ee"]).max() < 1e-10
    # t_max off the grid: records at 0, 0.6 and 1.0, one step onto each
    calls.clear()
    series = run(p, EvolverConfig(M=25, dt=0.3, t_max=1.0, record_stride=2), psi0,
                 ("ipr",), basis=basis)
    assert series.t.tolist() == [0.0, 0.6, 1.0]
    assert calls == [(25, 2 * 0.3), (25, 1.0 - 0.6)]


@pytest.mark.parametrize("dt, t_max, stride", [(0.2, 40.0, 1), (0.05, 1.0, 5), (0.1, 0.3, 1), (0.3, 0.0, 1)])
def test_run_on_multiples_of_dt_keeps_the_step_grid(dt, t_max, stride):
    # float near-multiples (40 / 0.2, 1 / 0.05) take whole steps only
    p = ModelParams(L=6, g=0.5, W=1.0, bc="pbc")
    series = run(p, EvolverConfig(M=6, dt=dt, t_max=t_max, record_stride=stride),
                 initial_localized(6, 3), ("ipr",))
    n = int(round(t_max / dt))
    assert np.array_equal(series.t, np.array(sorted({*range(0, n + 1, stride), n})) * dt)
