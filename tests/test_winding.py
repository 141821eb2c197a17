"""Point-gap winding numbers from flux-loop determinant phases."""

import tracemalloc
from dataclasses import replace
from math import comb

import numpy as np
import pytest
import scipy.linalg

import nhchain.winding as winding_mod

from nhchain import (
    ModelParams,
    WindingConfig,
    WindingIllDefinedError,
    build_fock_basis,
    build_many_body,
    build_single_particle,
    log_det_phase,
    winding_result,
)


def dense_winding(builder, cfg=None):
    """Reference winding: one dense determinant of H(phi) - E0 per point
    of the flux grid phi_k = 2*pi*k/n, for a map phi -> dense matrix,
    through the package's phase-jump check (`_from_phases`)."""
    cfg = cfg or WindingConfig()
    phases = []
    for phi in 2.0 * np.pi * np.arange(cfg.n_points + 1) / cfg.n_points:
        H = builder(phi)
        sign, logabs = np.linalg.slogdet(H - cfg.e0 * np.eye(len(H)))
        if not logabs >= np.log(winding_mod.DET_FLOOR):
            raise WindingIllDefinedError(f"determinant underflow at phi={phi}")
        phases.append(np.angle(sign))
    return winding_mod._from_phases(np.array(phases))


def _assert_matches_slogdet(hess, shifts, tol=1e-12):
    mags, phases = log_det_phase(hess, shifts)
    # one shift at a time: 101 complex 504 x 504 matrices would take 410 MB at once
    sign, logabs = map(np.array, zip(*(np.linalg.slogdet(np.eye(len(hess)) + s * hess) for s in shifts)))
    assert mags.shape == phases.shape == shifts.shape
    assert np.abs(mags - logabs).max() <= tol
    assert np.abs(np.angle(np.exp(1j * phases) / sign)).max() <= tol
    assert np.all((-np.pi < phases) & (phases <= np.pi))


def test_log_det_phase_scalars():
    mag, phase = log_det_phase(np.array([[2.0]]), np.array([1.0, -2.0]))
    assert mag == pytest.approx(np.log([3.0, 3.0]))
    assert phase == pytest.approx([0.0, np.pi])
    mag, phase = log_det_phase(np.array([[1.0j]]), np.array([1.0, 2.0j]))
    assert mag == pytest.approx([np.log(np.sqrt(2.0)), 0.0])
    assert phase == pytest.approx([np.pi / 4, np.pi])


@pytest.mark.parametrize("n", [2, 3, 8, 40])
@pytest.mark.parametrize("dtype", [float, complex])
def test_log_det_phase_matches_slogdet(n, dtype):
    rng = np.random.default_rng(n)
    hess = rng.normal(size=(n, n)).astype(dtype)
    if dtype is complex:
        hess += 1j * rng.normal(size=(n, n))
    hess = np.triu(hess, -1)
    # a small diagonal and large shifts put the larger entry of each
    # pivot column below the working row, so rows are swapped
    hess[np.diag_indices(n)] *= 1e-3
    shifts = np.concatenate([[0.0, 1e-3, -0.5 + 0.2j], 10.0 * np.exp(2j * np.pi * rng.random(20))])
    _assert_matches_slogdet(hess, shifts)
    # an exact zero on the leading pivot: only a row swap can proceed
    hess[0, 0] = -1.0
    _assert_matches_slogdet(hess, np.array([1.0, 1.0 + 1e-9j]))


@pytest.mark.parametrize("n, dtype", [(200, float), (504, float), (200, complex)])
def test_log_det_phase_matches_slogdet_at_winding_size(n, dtype):
    # n = 504 is the X of the dim-924 ring (L=12, N=6), where the block's layout
    # and allocations decide the loop's time.  The shifts are the 201-point flux
    # loop's e^{i phi} - 1: its half loop for a real X, every point for a complex
    # one (a complex E0).
    rng = np.random.default_rng(n)
    hess = rng.normal(size=(n, n)).astype(dtype)
    if dtype is complex:
        hess += 1j * rng.normal(size=(n, n))
    hess = scipy.linalg.hessenberg(hess)
    phi = 2 * np.pi * np.arange(202 if dtype is complex else 101) / 201
    _assert_matches_slogdet(hess, np.exp(1j * phi) - 1.0, tol=1e-10)
    # rows are swapped, as in the small test; at s = 1 the leading pivot is an exact zero
    hess[np.diag_indices(n)] *= 1e-3
    hess[0, 0] = -1.0
    _assert_matches_slogdet(hess, np.concatenate([[1.0], 10.0 * np.exp(2j * np.pi * rng.random(20))]),
                            tol=1e-10)


def test_log_det_phase_matches_eigenvalue_product():
    p = ModelParams(L=8, g=0.4, W=0.9, theta0=0.3, bc="pbc", phi=0.3)
    X = build_single_particle(p).dense()
    hess = scipy.linalg.hessenberg(X)
    s = 0.2 + 0.1j
    mag, phase = log_det_phase(hess, np.array([s]))
    det = np.prod(np.linalg.eigvals(np.eye(8) + s * X))
    assert mag[0] == pytest.approx(np.log(np.abs(det)), rel=1e-12)
    assert np.angle(det) == pytest.approx(phase[0], abs=1e-12)


def test_log_det_phase_singular_rejected():
    hess = np.array([[1.0, 1.0], [2.0, 0.0]])       # det(I + s hess) = (1 - s)(1 + 2s)
    for singular in (1.0, -0.5):                    # without and with a row swap
        with pytest.raises(WindingIllDefinedError):
            log_det_phase(hess, np.array([0.0, 0.3, singular, 2.0]))
    with pytest.raises(WindingIllDefinedError):     # a zero pivot column: 0/0 in the elimination
        log_det_phase(-np.eye(3), np.array([0.5, 1.0]))


def test_log_det_phase_stack_singular_member_rejected():
    # the second shift of the stack makes I + s hess the zero matrix
    with pytest.raises(WindingIllDefinedError):
        log_det_phase(np.eye(3, dtype=complex), np.array([0.0, -1.0]))


def test_log_det_phase_rejects_bad_input():
    for hess, shifts in ((np.ones((2, 3)), [1.0]), (np.ones((1, 2, 2)), [1.0]),
                         (np.ones((0, 0)), [1.0]), (np.eye(2), [[1.0]])):
        with pytest.raises(ValueError, match="square matrix"):
            log_det_phase(hess, np.array(shifts))
    for hess, shifts in ((np.array([[np.nan]]), [1.0]), (np.eye(2), [1.0, np.inf])):
        with pytest.raises(ValueError, match="infs or NaNs"):
            log_det_phase(hess, np.array(shifts))


# Small chains on which the low-rank route of winding_result must agree
# with one dense determinant per flux point: one particle for every L
# (at L=2 the wrap and bulk bonds join the same two sites), Fock sectors
# up to N=5 (both wrap signs, through N parity), both signs of g, real
# and complex E0, and two Hermitian rings whose E0 is an eigenvalue of
# H(0): E0 lies on the spectral curve, so both routes must raise.
SMALL_CASES = (
    [dict(L=L, g=g, W=1.1, e0=e0) for L in range(2, 22)
     for g, e0 in ((0.5, 0.0), (-0.3, 0.3 - 0.2j))]
    + [dict(L=L, N=N, g=g, V=1.5, W=0.7, e0=e0)
       for L in range(2, 9) for N in range(1, min(L, 6))
       for g, e0 in ((0.5, 0.0), (-0.4, -1.0 + 0.3j))]
    + [dict(L=4, g=0.0, W=0.0, e0=0.0), dict(L=2, g=0.0, W=0.0, e0=2.0)]
)


def _outcome(compute):
    try:
        res = compute()
    except Exception as exc:
        return type(exc), None, None
    return None, res.nu, res.raw


def test_low_rank_winding_matches_flux_grid():
    mismatches = []
    for case in SMALL_CASES:
        case = dict(case)
        e0 = case.pop("e0")
        p = ModelParams(theta0=0.4, bc="pbc", **case)
        cfg = WindingConfig(e0=e0)
        if p.many_body:
            basis = build_fock_basis(p.L, p.N)
            builder = lambda phi: build_many_body(replace(p, phi=phi), basis).dense()
        else:
            builder = lambda phi: build_single_particle(replace(p, phi=phi)).dense()
        fast = _outcome(lambda: winding_result(p, cfg))
        grid = _outcome(lambda: dense_winding(builder, cfg))
        same = fast[:2] == grid[:2] and (fast[2] is None or abs(fast[2] - grid[2]) <= 1e-9)
        if not same:
            mismatches.append((case, e0, fast, grid))
    assert mismatches == []


def _counting_log_det_phase(monkeypatch):
    """Patch log_det_phase to count the flux points (shifts) it is handed."""
    members = [0]
    original = winding_mod.log_det_phase

    def counting(hess, shifts):
        members[0] += len(shifts)
        return original(hess, shifts)

    monkeypatch.setattr(winding_mod, "log_det_phase", counting)
    return members


@pytest.mark.parametrize("case", [dict(L=13), dict(L=89), dict(L=8, N=4, V=1.5), dict(L=9, N=4, V=1.5)])
def test_real_base_energy_evaluates_half_the_loop(monkeypatch, case):
    # det at 2*pi - phi is the conjugate of det at phi: 101 of the 202 points
    members = _counting_log_det_phase(monkeypatch)
    phases = []
    from_phases = winding_mod._from_phases

    def recording(ph):
        phases.append(ph)
        return from_phases(ph)

    monkeypatch.setattr(winding_mod, "_from_phases", recording)
    p = ModelParams(g=0.5, W=1.0, theta0=0.4, bc="pbc", **case)
    res = winding_result(p, WindingConfig(e0=-0.5))
    assert members[0] == 101 and len(res.steps) == 201

    basis = build_fock_basis(p.L, p.N) if p.many_body else None
    grid = 2.0 * np.pi * np.arange(202) / 201
    full = winding_mod._low_rank_phases(p, basis, -0.5, grid)
    assert np.abs(np.angle(np.exp(1j * (phases[0] - full)))).max() <= 1e-12


def test_complex_base_energy_evaluates_every_point(monkeypatch):
    members = _counting_log_det_phase(monkeypatch)
    winding_result(ModelParams(L=13, g=0.5, W=1.0, bc="pbc"), WindingConfig(e0=0.3 - 0.2j))
    assert members[0] == 202


@pytest.mark.parametrize("case, e0, singular", [
    (dict(L=13, g=0.5, W=1.0), -0.5, False),
    (dict(L=9, N=4, g=0.5, V=1.5, W=0.7), 0.3 - 0.2j, False),
    (dict(L=4, g=0.0, W=0.0), 0.0, True),
    (dict(L=6, N=3, g=0.0, W=0.0), 0.0, True),
])
def test_one_reference_build_and_one_lu_per_winding(monkeypatch, case, e0, singular):
    # one flux grid from one reference point: H(0) is built and factored
    # once, also when E0 is one of its eigenvalues (no second grid)
    calls = {"build": 0, "lu": 0}

    def counted(name, key):
        original = getattr(winding_mod, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(winding_mod, name, wrapper)

    counted("build_many_body" if "N" in case else "build_single_particle", "build")
    counted("_checked_lu", "lu")
    p, cfg = ModelParams(bc="pbc", **case), WindingConfig(e0=e0)
    if singular:
        with pytest.raises(WindingIllDefinedError, match="eigenvalue of H"):
            winding_result(p, cfg)
    else:
        winding_result(p, cfg)
    assert calls == {"build": 1, "lu": 1}


def test_the_lu_never_sits_beside_a_whole_right_hand_side():
    # beside its one dim x dim LU, the winding holds less than the dim x 2r
    # right-hand side U of M = V^T A^{-1} U; solving U whole held 1.6 of it.
    # At dim 924 the LU stage is the winding's peak (at dim 252 the flux
    # points' (2r, points) blocks are)
    p = ModelParams(L=12, N=6, g=0.5, V=2.0, W=0.5, theta0=0.3, bc="pbc")
    dim, two_r = comb(12, 6), 2 * comb(10, 5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        winding_result(p)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak - dim * dim * 8 < dim * two_r * 8


def test_winding_transition_single_particle():
    assert winding_result(ModelParams(L=34, g=0.5, W=0.0, bc="pbc")).nu == 1
    assert winding_result(ModelParams(L=34, g=0.5, W=5.0, bc="pbc")).nu == 0


def test_winding_grid_refinement_stable():
    p = ModelParams(L=21, g=0.5, W=1.0, bc="pbc")
    nu_201 = winding_result(p, WindingConfig(n_points=201)).nu
    nu_402 = winding_result(p, WindingConfig(n_points=402)).nu
    assert nu_201 == nu_402 == 1


def test_winding_antisymmetric_in_g():
    plus = winding_result(ModelParams(L=21, g=0.5, W=0.5, bc="pbc")).nu
    minus = winding_result(ModelParams(L=21, g=-0.5, W=0.5, bc="pbc")).nu
    assert plus == 1 and minus == -1


def test_e0_on_the_spectrum_of_h0_is_ill_defined():
    # E0 = 0 is an eigenvalue of H(0), so it lies on the spectral curve:
    # no winding exists, by the low-rank route or the dense reference
    p = ModelParams(L=4, g=0.0, W=0.0, bc="pbc")
    with pytest.raises(WindingIllDefinedError, match="eigenvalue of H"):
        winding_result(p)
    with pytest.raises(WindingIllDefinedError):
        dense_winding(lambda phi: build_single_particle(replace(p, phi=phi)).dense())


def test_hermitian_closed_gap_is_ill_defined():
    # eigenvalues sweep across E0 = 0: a pi-sized phase jump, so no winding exists
    with pytest.raises(WindingIllDefinedError, match="phase jump"):
        winding_result(ModelParams(L=21, g=0.0, W=0.0, bc="pbc"))


def test_a_winding_above_the_grid_bound_is_refused_with_it():
    # no step may exceed pi/2, so n flux points carry at most |nu| = n/4;
    # this ring winds 16 times around E0 = -4
    p = ModelParams(L=12, N=6, g=0.5, V=0.5, W=0.0, bc="pbc")
    with pytest.raises(WindingIllDefinedError, match=r"phase jump 2\.656 exceeds pi/2: .* the 41-point "
                                                     r"flux grid is too coarse \(it carries at most \|nu\| = 10\.25\)"):
        winding_result(p, WindingConfig(n_points=41, e0=-4.0))
    assert winding_result(p, WindingConfig(e0=-4.0)).nu == 16


def test_persistent_singularity_raises():
    with pytest.raises(WindingIllDefinedError):
        dense_winding(lambda phi: np.zeros((2, 2), dtype=complex))


def test_winding_requires_pbc():
    with pytest.raises(ValueError):
        winding_result(ModelParams(L=8, g=0.5, bc="obc"))


def test_many_body_winding_half_filling():
    p = ModelParams(L=10, N=5, g=0.5, V=2.0, W=0.0, bc="pbc")
    res = winding_result(p)
    assert res.nu == 8
    assert abs(res.raw - res.nu) < 0.05
    assert len(res.steps) == 201


def test_config_validation():
    with pytest.raises(ValueError):
        WindingConfig(n_points=2)
    for e0 in (np.nan, np.inf, -np.inf, 1e400, complex(0.0, np.nan), complex(1.0, -np.inf)):
        with pytest.raises(ValueError, match="e0 must be finite"):
            WindingConfig(e0=e0)


def test_result_reports_raw_and_steps():
    res = winding_result(ModelParams(L=34, g=0.5, W=0.0, bc="pbc"))
    assert res.nu == 1
    assert abs(res.raw - 1.0) < 0.05
    assert np.abs(res.steps).max() <= np.pi
