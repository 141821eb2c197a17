"""Point-gap winding numbers from flux-loop determinant phases."""

import numpy as np
import pytest

import nhchain.winding as winding_mod

from nhchain import (
    ModelParams,
    SingularBaseEnergyError,
    WindingConfig,
    WindingIllDefinedError,
    build_fock_basis,
    build_many_body,
    build_single_particle,
    log_det_phase,
    winding_result,
)


def dense_winding(builder, cfg=None):
    """Reference winding: one dense determinant of H(phi) - E0 per flux
    point, for a map phi -> dense matrix, through the package's grid,
    retry and diagnostics (`_winding`)."""
    cfg = cfg or WindingConfig()

    def phases_on(grid):
        phases = []
        for phi in grid:
            H = builder(phi)
            phases.append(log_det_phase((H - cfg.e0 * np.eye(len(H)))[None])[1][0])
        return np.array(phases)

    return winding_mod._winding(phases_on, cfg)


def test_log_det_phase_scalars():
    mag, phase = log_det_phase(np.array([[[3.0]], [[-2.0]]]))
    assert mag == pytest.approx(np.log([3.0, 2.0]))
    assert phase == pytest.approx([0.0, np.pi])
    mag, phase = log_det_phase(np.diag([1.0j, 1.0j])[None])
    assert mag == pytest.approx([0.0], abs=1e-15)
    assert phase == pytest.approx([np.pi])   # det = -1


def test_log_det_phase_matches_eigenvalue_product():
    p = ModelParams(L=8, g=0.4, W=0.9, theta0=0.3, bc="pbc", phi=0.3)
    A = build_single_particle(p).dense() - (0.2 + 0.1j) * np.eye(8)
    mag, phase = log_det_phase(A[None])
    det = np.prod(np.linalg.eigvals(A))
    assert mag.shape == phase.shape == (1,)
    assert mag[0] == pytest.approx(np.log(np.abs(det)), rel=1e-12)
    assert np.angle(det) == pytest.approx(phase[0], abs=1e-12)


def test_log_det_phase_singular_rejected():
    with pytest.raises(SingularBaseEnergyError):
        log_det_phase(np.zeros((1, 3, 3), dtype=complex))


def test_log_det_phase_takes_only_a_stack_of_square_matrices():
    for bad in (np.eye(3), np.ones((2, 3, 4))):
        with pytest.raises(ValueError):
            log_det_phase(bad)


def test_log_det_phase_stack_matches_loop():
    rng = np.random.default_rng(7)
    stack = rng.normal(size=(3, 4, 6, 6)) + 1j * rng.normal(size=(3, 4, 6, 6))
    mags, phases = log_det_phase(stack)
    assert mags.shape == phases.shape == (3, 4)
    for i, j in np.ndindex(3, 4):
        det = np.prod(np.linalg.eigvals(stack[i, j]))
        assert mags[i, j] == pytest.approx(np.log(np.abs(det)), abs=1e-12)
        assert abs(np.angle(np.exp(1j * phases[i, j]) / det)) < 1e-12
        assert -np.pi < phases[i, j] <= np.pi


def test_log_det_phase_stack_singular_member_rejected():
    stack = np.stack([np.eye(3, dtype=complex), np.zeros((3, 3), dtype=complex)])
    with pytest.raises(SingularBaseEnergyError):
        log_det_phase(stack)


# Small chains on which the low-rank route of winding_result must agree
# with one dense determinant per flux point: one particle for every L
# (at L=2 the wrap and bulk bonds join the same two sites), Fock sectors
# up to N=5 (both wrap signs, through N parity), both signs of g, real
# and complex E0, and two chains singular at phi = 0 that need the
# half-step retry.
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
            builder = lambda phi: build_many_body(p.with_flux(phi), basis).dense()
        else:
            builder = lambda phi: build_single_particle(p.with_flux(phi)).dense()
        fast = _outcome(lambda: winding_result(p, cfg))
        grid = _outcome(lambda: dense_winding(builder, cfg))
        same = fast[:2] == grid[:2] and (fast[2] is None or abs(fast[2] - grid[2]) <= 1e-9)
        if not same:
            mismatches.append((case, e0, fast, grid))
    assert mismatches == []


def _counting_log_det_phase(monkeypatch):
    """Patch log_det_phase to count the stack members it is handed."""
    members = [0]
    original = winding_mod.log_det_phase

    def counting(stack):
        members[0] += int(np.prod(stack.shape[:-2]))
        return original(stack)

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
    full = winding_mod._low_rank_phases(p, basis, WindingConfig(e0=-0.5), grid)
    assert np.abs(np.angle(np.exp(1j * (phases[0] - full)))).max() <= 1e-12


def test_complex_base_energy_and_retry_evaluate_every_point(monkeypatch):
    members = _counting_log_det_phase(monkeypatch)
    winding_result(ModelParams(L=13, g=0.5, W=1.0, bc="pbc"), WindingConfig(e0=0.3 - 0.2j))
    assert members[0] == 202
    members[0] = 0
    # singular at phi = 0, so only the half-step grid reaches the determinants
    assert winding_result(ModelParams(L=4, g=0.0, W=0.0, bc="pbc")).nu == 0
    assert members[0] == 202


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


def test_hermitian_singular_grid_point_retries():
    # Phi = 0 makes det(H) vanish exactly; the shifted grid resolves it
    assert winding_result(ModelParams(L=4, g=0.0, W=0.0, bc="pbc")).nu == 0


def test_hermitian_closed_gap_is_ill_defined():
    # eigenvalues sweep across E0 = 0: a pi-sized phase jump, so no winding exists
    with pytest.raises(WindingIllDefinedError, match="phase jump"):
        winding_result(ModelParams(L=21, g=0.0, W=0.0, bc="pbc"))


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


def test_result_reports_raw_and_steps():
    res = winding_result(ModelParams(L=34, g=0.5, W=0.0, bc="pbc"))
    assert res.nu == 1
    assert abs(res.raw - 1.0) < 0.05
    assert np.abs(res.steps).max() <= np.pi
